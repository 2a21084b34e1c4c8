//! # fenrir-data
//!
//! The dataset layer: serialization of routing-vector series to JSONL
//! (honouring the paper's "we will release our datasets" commitment with
//! a machine-readable format), and **scenario builders** that
//! reconstruct every dataset of the paper's Table 2 — plus the G-Root
//! example of Figure 1 — as deterministic simulations:
//!
//! | builder | paper dataset | reproduces |
//! |---|---|---|
//! | [`scenarios::groot`] | G-Root via RIPE Atlas (meas. 10314) | Figure 1, Table 3 |
//! | [`scenarios::broot_validation`] | B-Root/Atlas, 4 months @ 4 min | Table 4 |
//! | [`scenarios::broot`] | B-Root/Verfploeter, 5 years daily | Figures 3 & 4 |
//! | [`scenarios::usc`] | USC/traceroute, 8 months | Figures 2, 7, 8 |
//! | [`scenarios::google`] | Google/EDNS-CS, 2013 + 2024 | Figure 5 |
//! | [`scenarios::wikipedia`] | Wiki/EDNS-CS, 1.5 months | Figure 6 |
//!
//! Every builder takes a [`scenarios::Scale`] so tests run in milliseconds
//! while the benchmark harness runs paper-sized timelines.

pub mod catalog;
pub mod io;
pub mod journal;
mod json;
pub mod scenarios;
pub mod storage;
