//! # locality-adversary
//!
//! The negative-result machinery of Bose, Carmi and Durocher, *Bounding
//! the Locality of Distributed Routing Algorithms* (PODC 2009):
//! constructions that defeat k-local routing algorithms when `k` is
//! below the feasibility threshold `T(n)`, and the tight dilation
//! instances for the positive algorithms.
//!
//! * [`thm1`] — the hub-and-four-paths family of Theorem 1 (`k <
//!   ⌊(n+1)/4⌋` defeats every origin-aware, predecessor-aware
//!   algorithm), regenerating Table 3,
//! * [`thm2`] — the three-paths-from-the-origin family of Theorem 2
//!   (`k < ⌊(n+1)/3⌋`, origin-oblivious), regenerating Table 4,
//! * [`thm3`] — the two-path family of Theorem 3/Corollary 2 (`k <
//!   ⌊n/2⌋`, predecessor-oblivious),
//! * [`thm4`] — the dilation lower bound `S(k) = 2n/k − 3`,
//! * [`lemma1`] — probes establishing that local routing functions of
//!   successful algorithms are circular permutations,
//! * [`tight`] — the Fig. 13 (dilation → 7 for Algorithm 1) and Fig. 17
//!   (dilation → 6 for Algorithm 1B) worst-case instances,
//! * [`strategy`] — the enumerable strategy routers the impossibility
//!   proofs quantify over,
//! * [`defeat`] — a black-box search that finds a defeating instance
//!   for a router run below its threshold.
//!
//! The table regenerations and the defeat search fan their independent
//! probes out through [`locality_graph::fanout`], whose in-order merge
//! keeps every result identical at any thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod defeat;
pub mod lemma1;
pub mod strategy;
pub mod thm1;
pub mod thm2;
pub mod thm3;
pub mod thm4;
pub mod tight;
