//! # dams-core
//!
//! The paper's primary contribution: **diversity-aware mixin selection**
//! (DA-MS). Given a batch of tokens with their historical transactions and
//! the ring signatures already committed, select a minimum set of mixins
//! for a consuming token such that the resulting ring
//!
//! 1. is a recursive (c, ℓ)-diversity RS (Definition 4),
//! 2. leaves no token eliminable by chain-reaction analysis, and
//! 3. preserves every existing ring's claimed diversity (Definition 5).
//!
//! Solvers:
//!
//! * [`mod@bfs`] — the exact breadth-first search (Algorithm 2), exponential;
//! * [`mod@progressive`] — the O(n²) greedy approximation (Algorithm 4);
//! * [`game`] — the O(n³) potential-game approximation (Algorithm 5);
//! * [`baselines`] — the Smallest (TM_S) and Random (TM_R) baselines;
//! * [`tokenmagic`] — the framework (Algorithm 1) wrapping any of the
//!   practical algorithms with target-hiding and the η guard;
//! * [`config`] — the two practical configurations of §6.1 with the
//!   Theorem 6.1 polynomial DTRS check and Theorem 6.4 margin;
//! * [`ratio`] — Theorem 6.5 / 6.7 bound computation plus a small-instance
//!   exact optimum for validating them;
//! * [`degrade`] — deadline-budgeted graceful degradation chaining
//!   exact BFS → Progressive → Game-theoretic, reporting which tier
//!   answered and its approximation guarantee;
//! * [`index`] — the streaming per-batch diversity index every served
//!   selection and `Wallet::spend` (dams-node) read their batch from;
//! * [`validate`] — the polynomial Definition-5 validator a wallet runs on
//!   the ladder's answer before it signs; it reads only the answer's
//!   related RS set.
//!
//! # Example
//!
//! ```
//! use dams_core::{progressive, SelectionPolicy, ModularInstance, Module, ModuleId, ModuleKind};
//! use dams_diversity::{ring, DiversityRequirement, HtId, RsId, TokenId, TokenUniverse};
//!
//! // Four tokens from three historical transactions; one committed ring
//! // {0, 1} (a super RS) and two fresh tokens.
//! let universe = TokenUniverse::new(vec![HtId(0), HtId(0), HtId(1), HtId(2)]);
//! let instance = ModularInstance::from_modules(universe, vec![
//!     Module { id: ModuleId(0), kind: ModuleKind::SuperRs(RsId(0)), tokens: ring(&[0, 1]) },
//!     Module { id: ModuleId(1), kind: ModuleKind::FreshToken, tokens: ring(&[2]) },
//!     Module { id: ModuleId(2), kind: ModuleKind::FreshToken, tokens: ring(&[3]) },
//! ]);
//!
//! // Spend token 2 under recursive (2, 2)-diversity.
//! let policy = SelectionPolicy::new(DiversityRequirement::new(2.0, 2));
//! let selection = progressive(&instance, TokenId(2), policy).unwrap();
//! assert!(selection.ring.contains(TokenId(2)));
//! ```

pub mod attack_aware;
pub mod baselines;
pub mod bfs;
pub mod cache;
pub mod config;
pub mod degrade;
pub mod game;
pub mod glossary;
pub mod index;
pub mod instance;
pub mod obs;
pub mod progressive;
pub mod ratio;
pub mod selection;
pub mod tokenmagic;
pub mod validate;

pub use attack_aware::{sample_ring, MixinPool, SamplingMode};
pub use baselines::{random, smallest};
pub use bfs::{bfs, bfs_batch, bfs_reference, bfs_with, grant_budget, BfsBudget};
pub use cache::{CachedOutcome, EvalCache, DEFAULT_CACHE_CAPACITY};
pub use config::{
    dtrs_diverse_fast, dtrs_token_sets_fast, psi, satisfies_first_configuration, SelectionPolicy,
};
pub use dams_diversity::Deadline;
pub use degrade::{select_with_ladder_exec, DegradedSelection, Guarantee, LadderExec, Tier};
pub use game::{game_theoretic, game_theoretic_from, game_theoretic_reference, InitStrategy};
pub use index::{
    recompute_equivalence, BatchSnapshot, BlockDelta, DeltaRing, DiversityIndex, IndexError,
    IndexStats, IndexedSelection,
};
pub use instance::{DecomposeError, Instance, ModularInstance, Module, ModuleId, ModuleKind};
pub use obs::CoreMetrics;
pub use progressive::progressive;
pub use ratio::{optimal_modular, RatioParams};
pub use selection::{Algorithm, SelectError, Selection, SelectionStats};
pub use tokenmagic::{PracticalAlgorithm, TokenMagic};
pub use validate::{validate_ring, validate_ring_reference, Verdict};
