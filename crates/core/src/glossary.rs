//! # Table 1 — symbol glossary
//!
//! The paper's notation mapped to this crate family's types and functions.
//!
//! | Paper symbol | Meaning | Here |
//! |---|---|---|
//! | `T` | the universe of tokens `t_i` | [`dams_diversity::TokenUniverse`] |
//! | `t_i` | a token | [`dams_diversity::TokenId`] |
//! | `h_i` | the HT (historical transaction) that output `t_i` | [`dams_diversity::HtId`], resolved by [`dams_diversity::TokenUniverse::ht`] |
//! | `r_k` | a ring signature as a token set | [`dams_diversity::RingSet`] |
//! | `R_π^{r_k}` | the related RS set of `r_k` at time `π` | [`dams_diversity::RingIndex::related_set`] |
//! | `(c_k, ℓ_k)` | the diversity requirement of `r_k` | [`dams_diversity::DiversityRequirement`] |
//! | `p_k = ⟨t_k, r_k⟩` | a token–RS pair ("`t_k` is consumed in `r_k`") | [`dams_diversity::TokenRsPair`] |
//! | `d^{π,k}` | a DTRS of `r_k` at time `π` | [`dams_diversity::Dtrs`], via [`dams_diversity::enumerate_dtrs`] or the Theorem 6.1 fast path [`crate::dtrs_token_sets_fast`] |
//! | `SI`, `SI#`, `SI*` | adversary side information and its closure | [`dams_diversity::SideInformation`] |
//! | `u` (token–RS combination) | one possible world | [`dams_diversity::Combination`] |
//! | `q_i` | count of the i-th most frequent HT | [`dams_diversity::HtHistogram::q`] |
//! | `θ` | number of distinct HTs | [`dams_diversity::HtHistogram::theta`] |
//! | `s_i` (super RS) | a ring not contained in any later ring | [`crate::ModuleKind::SuperRs`] |
//! | `f_i` (fresh token) | a token in no existing ring | [`crate::ModuleKind::FreshToken`] |
//! | `v_i` | subset count of a super RS | [`crate::ModularInstance::subset_count`] |
//! | `x_i` / `a_i` | a module / a player | [`crate::Module`] |
//! | `α_i`, `γ_i` | coverage-phase greedy score | computed inside [`fn@crate::progressive`] / [`crate::game_theoretic`] |
//! | `β_i` | slack-reduction score | computed inside [`fn@crate::progressive`]
//! | `δ` | diversity slack `q_1 − c·(q_ℓ+…+q_θ)` | [`dams_diversity::DiversityRequirement::slack`] |
//! | `λ` | tokens per TokenMagic batch | `dams_blockchain::BatchList::build`'s parameter |
//! | `η` | feasibility-guard parameter | [`dams_diversity::EtaGuard`] |
//! | `q_M`, `z_M` | most-frequent HT count, largest module size | [`crate::RatioParams`] |
//! | `ε = Σ 1/i` | harmonic bound term (Thm 6.5) | [`crate::RatioParams::harmonic`] |
//! | `I` (token image) | the double-spend tag | `dams_crypto::KeyImage` |
//! | `ω` | the zero-knowledge proof of Step 2 | `dams_crypto::RingSignature` |
//!
//! This module holds documentation only.

// Intentionally empty: the glossary lives in the module docs above.
